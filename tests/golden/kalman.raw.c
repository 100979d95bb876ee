#include <scicos/scicos_block4.h>
#include <string.h>
#include <stdio.h>
#include <stdlib.h>
#include <stdint.h>
#include <math.h>
typedef int boolean;
#ifndef TRUE
#define TRUE 1
#define FALSE 0
#endif
/* Start1002*/

void mult(double *res, double *a, double *b,double *md1,double *nd1,double *md2,double *nd2)
{
 int i,j,k,m1=(int) (*md1),n1= (int) (*nd1),m2= (int) (*md2),n2=(int) (*nd2);
 for (i = 0 ; i < m1; i++)
   for (j = 0 ; j < n2; j++)
     {
       res[i+m1*j]=0;
       for (k = 0 ; k < n1; k++)
         res[i+(m1)*j] += a[i+(m1)*k]*b[k+(m2)*j];
     }
}

void quote(double *res, double *a, double *dm,double *dn)
{
 int i,j, m1=(int) (*dm), n1 = (int) (*dn) ;
 for (i = 0 ; i < (m1); i++)
   for (j = 0 ; j < (n1); j++)
     {
       res[j+(n1)*i]= a[i+(m1)*j];
     }
}

static double z_10021[]={ -900, 80, 950, 20 };
static double z_10022[]={ 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0 };
static double link10024[]={ 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0 };

void initialize1002(){
  static double tmp_91[]={ -900, 80, 950, 20 };
  static double tmp_92[]={ 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0 };
  static double tmp_93[]={ 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0 };
  memcpy(z_10021,tmp_91,4*sizeof(double));
  memcpy(z_10022,tmp_92,16*sizeof(double));
  memcpy(link10024,tmp_93,16*sizeof(double));
}

void updateOutput10021(double *inouts1,double *inouts2){
  double tmp_1;
  double tmp_2;
  double tmp_3;
  double tmp_4;
  double tmp_5;
  double tmp_6;
  double tmp_7;
  double tmp_8;
  double tmp_9;
  double tmp_10[2];
  double tmp_11;
  double tmp_12;
  double tmp_13[2];
  double tmp_14[3];
  double tmp_15[4];
  double tmp_16;
  double tmp_17;
  double tmp_18;
  double tmp_19;
  double tmp_20;
  double tmp_21[2];
  double tmp_22[3];
  double tmp_23[4];
  double tmp_24[8];
  double tmp_25[4];
  double tmp_26[]={ 1, 0, 0, 0, 0.1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0.1, 1 };
  double tmp_27=4;
  double tmp_28=4;
  double tmp_29=4;
  double tmp_30=4;
  double tmp_31[16];
  double tmp_32[]={ 1, 0.1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0.1, 0, 0, 0, 1 };
  double tmp_33=4;
  double tmp_34=4;
  double tmp_35=4;
  double tmp_36=4;
  double tmp_37[16];
  double tmp_38[16];
  double tmp_39=2;
  double tmp_40=4;
  double tmp_41[8];
  double tmp_42=4;
  double tmp_43=4;
  double tmp_44=4;
  double tmp_45=2;
  double tmp_46[8];
  double tmp_47=2;
  double tmp_48=4;
  double tmp_49=4;
  double tmp_50=4;
  double tmp_51[8];
  double tmp_52=2;
  double tmp_53=4;
  double tmp_54[8];
  double tmp_55[4];
  double tmp_56[4];
  double tmp_57[4];
  double tmp_58;
  double tmp_59;
  double tmp_60;
  double tmp_61;
  double tmp_62;
  double tmp_63;
  double tmp_64;
  double tmp_65;
  double tmp_66;
  double tmp_67;
  double tmp_68;
  double tmp_69;
  double tmp_70;
  double tmp_71[4];
  double tmp_72=4;
  double tmp_73=2;
  double tmp_74=2;
  double tmp_75=2;
  double tmp_76[8];
  double tmp_77[2];
  double tmp_78[4];
  double tmp_79[4];
  double tmp_80=4;
  double tmp_81=2;
  double tmp_82=2;
  double tmp_83=4;
  double tmp_84[16];
  double tmp_85[16];
  double tmp_86=4;
  double tmp_87=4;
  double tmp_88=4;
  double tmp_89=4;
  double tmp_90[16];
  tmp_1=(z_10021[0]);
  tmp_2=(tmp_1*tmp_1);
  tmp_3=(z_10021[2]);
  tmp_4=(tmp_3*tmp_3);
  tmp_5=(tmp_2+tmp_4);
  tmp_6=sqrt(tmp_5);
  tmp_7=(z_10021[2]);
  tmp_8=(z_10021[0]);
  tmp_9=atan2(tmp_7,tmp_8);
  tmp_10[0]=tmp_6;
  tmp_10[1]=tmp_9;
  tmp_11=cos(tmp_9);
  tmp_12=sin(tmp_9);
  /* Begin concatr of tmp_11 with unknown*/
  tmp_13[0]=tmp_11;
  tmp_13[1]=0;
  /* end concatr of tmp_11 with unknown*/
  /* Begin concatr of tmp_13 with tmp_12*/
  tmp_14[0]=(tmp_13[0]);
  tmp_14[1]=(tmp_13[1]);
  tmp_14[2]=tmp_12;
  /* end concatr of tmp_13 with tmp_12*/
  /* Begin concatr of tmp_14 with unknown*/
  tmp_15[0]=(tmp_14[0]);
  tmp_15[1]=(tmp_14[1]);
  tmp_15[2]=(tmp_14[2]);
  tmp_15[3]=0;
  /* end concatr of tmp_14 with unknown*/
  tmp_16=sin(tmp_9);
  tmp_17=(-(tmp_16));
  tmp_18=(tmp_17/ tmp_6);
  tmp_19=cos(tmp_9);
  tmp_20=(tmp_19/ tmp_6);
  /* Begin concatr of tmp_18 with unknown*/
  tmp_21[0]=tmp_18;
  tmp_21[1]=0;
  /* end concatr of tmp_18 with unknown*/
  /* Begin concatr of tmp_21 with tmp_20*/
  tmp_22[0]=(tmp_21[0]);
  tmp_22[1]=(tmp_21[1]);
  tmp_22[2]=tmp_20;
  /* end concatr of tmp_21 with tmp_20*/
  /* Begin concatr of tmp_22 with unknown*/
  tmp_23[0]=(tmp_22[0]);
  tmp_23[1]=(tmp_22[1]);
  tmp_23[2]=(tmp_22[2]);
  tmp_23[3]=0;
  /* end concatr of tmp_22 with unknown*/
  tmp_24[0]=(tmp_15[0]);
  tmp_24[1]=(tmp_23[0]);
  tmp_24[2]=(tmp_15[1]);
  tmp_24[3]=(tmp_23[1]);
  tmp_24[4]=(tmp_15[2]);
  tmp_24[5]=(tmp_23[2]);
  tmp_24[6]=(tmp_15[3]);
  tmp_24[7]=(tmp_23[3]);
  tmp_25[0]=((((1*(z_10021[0]))+(0.1*(z_10021[1])))+(0*(z_10021[2])))+(0*(z_10021[3])));
  tmp_25[1]=((((0*(z_10021[0]))+(1*(z_10021[1])))+(0*(z_10021[2])))+(0*(z_10021[3])));
  tmp_25[2]=((((0*(z_10021[0]))+(0*(z_10021[1])))+(1*(z_10021[2])))+(0.1*(z_10021[3])));
  tmp_25[3]=((((0*(z_10021[0]))+(0*(z_10021[1])))+(0*(z_10021[2])))+(1*(z_10021[3])));
  /* Product of matrices resulting size 16>6: calling external function*/
  tmp_26[0]=1;
  tmp_26[1]=0;
  tmp_26[2]=0;
  tmp_26[3]=0;
  tmp_26[4]=0.1;
  tmp_26[5]=1;
  tmp_26[6]=0;
  tmp_26[7]=0;
  tmp_26[8]=0;
  tmp_26[9]=0;
  tmp_26[10]=1;
  tmp_26[11]=0;
  tmp_26[12]=0;
  tmp_26[13]=0;
  tmp_26[14]=0.1;
  tmp_26[15]=1;
  tmp_27=4;
  tmp_28=4;
  tmp_29=4;
  tmp_30=4;
  mult(tmp_31,tmp_26,z_10022,&tmp_27,&tmp_28,&tmp_29,&tmp_30);
  /* Product of matrices resulting size 16>6: calling external function*/
  tmp_32[0]=1;
  tmp_32[1]=0.1;
  tmp_32[2]=0;
  tmp_32[3]=0;
  tmp_32[4]=0;
  tmp_32[5]=1;
  tmp_32[6]=0;
  tmp_32[7]=0;
  tmp_32[8]=0;
  tmp_32[9]=0;
  tmp_32[10]=1;
  tmp_32[11]=0.1;
  tmp_32[12]=0;
  tmp_32[13]=0;
  tmp_32[14]=0;
  tmp_32[15]=1;
  tmp_33=4;
  tmp_34=4;
  tmp_35=4;
  tmp_36=4;
  mult(tmp_37,tmp_31,tmp_32,&tmp_33,&tmp_34,&tmp_35,&tmp_36);
  tmp_38[0]=((tmp_37[0])+0);
  tmp_38[4]=((tmp_37[4])+0);
  tmp_38[8]=((tmp_37[8])+0);
  tmp_38[12]=((tmp_37[12])+0);
  tmp_38[1]=((tmp_37[1])+0);
  tmp_38[5]=((tmp_37[5])+0.1);
  tmp_38[9]=((tmp_37[9])+0);
  tmp_38[13]=((tmp_37[13])+0);
  tmp_38[2]=((tmp_37[2])+0);
  tmp_38[6]=((tmp_37[6])+0);
  tmp_38[10]=((tmp_37[10])+0);
  tmp_38[14]=((tmp_37[14])+0);
  tmp_38[3]=((tmp_37[3])+0);
  tmp_38[7]=((tmp_37[7])+0);
  tmp_38[11]=((tmp_37[11])+0);
  tmp_38[15]=((tmp_37[15])+0.1);
  /* Transpose of matrix of size 8>6: calling external function*/
  tmp_39=2;
  tmp_40=4;
  quote(tmp_41,tmp_24,&tmp_39,&tmp_40);
  /* End of Transpose*/
  /* Product of matrices resulting size 8>6: calling external function*/
  tmp_42=4;
  tmp_43=4;
  tmp_44=4;
  tmp_45=2;
  mult(tmp_46,tmp_38,tmp_41,&tmp_42,&tmp_43,&tmp_44,&tmp_45);
  /* Product of matrices resulting size 8>6: calling external function*/
  tmp_47=2;
  tmp_48=4;
  tmp_49=4;
  tmp_50=4;
  mult(tmp_51,tmp_24,tmp_38,&tmp_47,&tmp_48,&tmp_49,&tmp_50);
  /* Transpose of matrix of size 8>6: calling external function*/
  tmp_52=2;
  tmp_53=4;
  quote(tmp_54,tmp_24,&tmp_52,&tmp_53);
  /* End of Transpose*/
  tmp_55[0]=(((((tmp_51[0])*(tmp_54[0]))+((tmp_51[2])*(tmp_54[1])))+((tmp_51[4])*(tmp_54[2])))+((tmp_51[6])*(tmp_54[3])));
  tmp_55[2]=(((((tmp_51[0])*(tmp_54[4]))+((tmp_51[2])*(tmp_54[5])))+((tmp_51[4])*(tmp_54[6])))+((tmp_51[6])*(tmp_54[7])));
  tmp_55[1]=(((((tmp_51[1])*(tmp_54[0]))+((tmp_51[3])*(tmp_54[1])))+((tmp_51[5])*(tmp_54[2])))+((tmp_51[7])*(tmp_54[3])));
  tmp_55[3]=(((((tmp_51[1])*(tmp_54[4]))+((tmp_51[3])*(tmp_54[5])))+((tmp_51[5])*(tmp_54[6])))+((tmp_51[7])*(tmp_54[7])));
  tmp_56[0]=((tmp_55[0])+2500);
  tmp_56[2]=((tmp_55[2])+0);
  tmp_56[1]=((tmp_55[1])+0);
  tmp_56[3]=((tmp_55[3])+2.5e-05);
  tmp_58=(tmp_56[3]);
  tmp_57[0]=tmp_58;
  tmp_59=(tmp_56[0]);
  tmp_57[3]=tmp_59;
  tmp_60=(tmp_56[2]);
  tmp_61=(-(tmp_60));
  tmp_57[2]=tmp_61;
  tmp_62=(tmp_56[1]);
  tmp_63=(-(tmp_62));
  tmp_57[1]=tmp_63;
  tmp_64=(tmp_56[0]);
  tmp_65=(tmp_56[3]);
  tmp_66=(tmp_64*tmp_65);
  tmp_67=(tmp_56[2]);
  tmp_68=(tmp_56[1]);
  tmp_69=(tmp_67*tmp_68);
  tmp_70=(tmp_66-tmp_69);
  tmp_71[0]=((tmp_57[0])/ tmp_70);
  tmp_71[2]=((tmp_57[2])/ tmp_70);
  tmp_71[1]=((tmp_57[1])/ tmp_70);
  tmp_71[3]=((tmp_57[3])/ tmp_70);
  /* Product of matrices resulting size 8>6: calling external function*/
  tmp_72=4;
  tmp_73=2;
  tmp_74=2;
  tmp_75=2;
  mult(tmp_76,tmp_46,tmp_71,&tmp_72,&tmp_73,&tmp_74,&tmp_75);
  tmp_77[0]=((inouts1[0])-(tmp_10[0]));
  tmp_77[1]=((inouts1[1])-(tmp_10[1]));
  tmp_78[0]=(((tmp_76[0])*(tmp_77[0]))+((tmp_76[4])*(tmp_77[1])));
  tmp_78[1]=(((tmp_76[1])*(tmp_77[0]))+((tmp_76[5])*(tmp_77[1])));
  tmp_78[2]=(((tmp_76[2])*(tmp_77[0]))+((tmp_76[6])*(tmp_77[1])));
  tmp_78[3]=(((tmp_76[3])*(tmp_77[0]))+((tmp_76[7])*(tmp_77[1])));
  tmp_79[0]=((tmp_25[0])+(tmp_78[0]));
  tmp_79[1]=((tmp_25[1])+(tmp_78[1]));
  tmp_79[2]=((tmp_25[2])+(tmp_78[2]));
  tmp_79[3]=((tmp_25[3])+(tmp_78[3]));
  /* Product of matrices resulting size 16>6: calling external function*/
  tmp_80=4;
  tmp_81=2;
  tmp_82=2;
  tmp_83=4;
  mult(tmp_84,tmp_76,tmp_24,&tmp_80,&tmp_81,&tmp_82,&tmp_83);
  tmp_85[0]=(1-(tmp_84[0]));
  tmp_85[4]=(0-(tmp_84[4]));
  tmp_85[8]=(0-(tmp_84[8]));
  tmp_85[12]=(0-(tmp_84[12]));
  tmp_85[1]=(0-(tmp_84[1]));
  tmp_85[5]=(1-(tmp_84[5]));
  tmp_85[9]=(0-(tmp_84[9]));
  tmp_85[13]=(0-(tmp_84[13]));
  tmp_85[2]=(0-(tmp_84[2]));
  tmp_85[6]=(0-(tmp_84[6]));
  tmp_85[10]=(1-(tmp_84[10]));
  tmp_85[14]=(0-(tmp_84[14]));
  tmp_85[3]=(0-(tmp_84[3]));
  tmp_85[7]=(0-(tmp_84[7]));
  tmp_85[11]=(0-(tmp_84[11]));
  tmp_85[15]=(1-(tmp_84[15]));
  /* Product of matrices resulting size 16>6: calling external function*/
  tmp_86=4;
  tmp_87=4;
  tmp_88=4;
  tmp_89=4;
  mult(tmp_90,tmp_85,tmp_38,&tmp_86,&tmp_87,&tmp_88,&tmp_89);
  memcpy(link10024,tmp_90,16*sizeof(double));
  memcpy(inouts2,tmp_79,4*sizeof(double));
}

void updateState10021(double *inouts1,double *inouts2){
  memcpy(z_10021,inouts2,4*sizeof(double));
  memcpy(z_10022,link10024,16*sizeof(double));
}

/* End1002*/

void toto1002(scicos_block *block,int flag)
{
if (flag == 1) {
  updateOutput10021((GetRealInPortPtrs(block,1)),(GetRealOutPortPtrs(block,1)));
}
else if (flag == 2) {
  updateState10021((GetRealInPortPtrs(block,1)),(GetRealOutPortPtrs(block,1)));
}
else if (flag == 4) {
  initialize1002();
}
}
